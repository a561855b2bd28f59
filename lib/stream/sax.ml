include Xsm_xml.Sax
